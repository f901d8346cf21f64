"""Manifolds glued from copies of a graph-associahedron.

A GF(2) matrix with one column per facet prescribes how 2^rank mirror
copies of the polytope are joined: two copies agree over a face exactly
when their labels differ by an element of the span of that face's
columns.  Identity columns give the real moment-angle manifold; a
matrix whose columns at every vertex form a basis gives a small cover;
adjoining an extra always-on row to a non-orientable small cover's
matrix gives its orientation cover.

Constructing a manifold builds only the coset table of each face.
Integral homology runs on the cell structure of Davis and Januszkiewicz
("Convex polytopes, Coxeter orbifolds and torus actions", Duke Math. J.
62, 1991): a face F of dimension d contributes one d-cell per coset of the
span of F's columns, which for a small cover is f_d * 2^d cells in degree
d, and the boundary of a cell is the polytope's own boundary of F, each
facet taken in the coset of its copy.  The simplicial complex, the
barycentric subdivision of each copy glued simplex by simplex, is built
on the first read of ``complex``, and nothing in this module reads it:
orientation too is decided on the cells (``GluedManifold.orientation``).
Before any copy is assembled, the gluing is certified on bar(P) and the
coset tables (``GluedManifold._certify``): that bar(P) is a
vertex-determined pure complex with the diamond property, and that the
tables retract, compose along facets, fix every copy on P and pair the
copies on each facet, implies that the glued complex is a
vertex-determined pseudomanifold.  The complex carries those verdicts,
so the generic checks of ``cellcomplex``, whose cost grows with
2^rank * |bar(P)|, never run on it.  Every gluing over one polytope
shares bar(P) and its half of the certificate, so both are built once
per polytope and kept in the shared memo (``memo``) from the polytope's
second sight; each gluing builds and checks only its coset tables, and
assembles its copies.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from math import factorial
from operator import getitem, le

from .errors import ValidationError, check_budget, json_int, read_json
from .graphs import members
from .memo import _MEMO
from .nestohedron import barycentric_complex
from .cellcomplex import (
    ChainComplex,
    SimplicialCellComplex,
    gf2_rank,
    homology,
    homology_z2,
    is_top_cycle,
    record_passed_checks,
    sign_walk,
)


class CharacteristicFunction:
    """GF(2) matrix whose columns follow the canonical facet order.

    Columns are stored as integers with bit i meaning row i.  Validity
    (a basis at every vertex) is a property of the pair (polytope,
    matrix) and is checked separately by ``validate_characteristic``.
    """

    def __init__(self, building_set, rows, columns):
        columns = tuple(columns)
        if len(columns) != len(building_set.proper_tubes):
            raise ValidationError(
                f"need one column per facet: got {len(columns)}, "
                f"expected {len(building_set.proper_tubes)}")
        top = 1 << rows
        if any(not 0 <= c < top for c in columns):
            raise ValidationError(f"column does not fit in {rows} rows")
        self.b = building_set
        self.rows = rows
        self.columns = columns

    def column(self, tube_mask):
        return self.columns[self.b.proper_index[tube_mask]]

    def __eq__(self, other):
        return (isinstance(other, CharacteristicFunction)
                and self.rows == other.rows
                and self.columns == other.columns
                and self.b.tubes == other.b.tubes)

    def __repr__(self):
        return f"CharacteristicFunction(rows={self.rows}, columns={self.columns})"


def lambda_can(b):
    """The matrix induced by the coordinate-simplex normal fan.

    The column of a facet not containing vertex 0 is the sum of the
    basis vectors of its members; otherwise the sum over the complement.
    """
    n = b.n_vertices - 1
    cols = []
    for t in b.proper_tubes:
        if t & 1:
            t = b.ground_mask & ~t
        cols.append(sum(1 << (v - 1) for v in members(t)))
    return CharacteristicFunction(b, n, cols)


def lambda_tomei(n):
    """On the polytope of the complete graph: each facet's column is the
    basis vector indexed by the facet's cardinality."""
    from .graphs import complete_graph, graph_building_set
    b = graph_building_set(complete_graph(n + 1))
    cols = [1 << (t.bit_count() - 1) for t in b.proper_tubes]
    return CharacteristicFunction(b, n, cols)


def lambda_star_as3():
    """A hand-picked matrix on the 3-dimensional path polytope whose glued
    manifold is orientable (the canonical one never is in low dimensions)."""
    from .graphs import graph_building_set, path_graph
    b = graph_building_set(path_graph(4))
    cols = [1, 1, 2, 2, 4, 4, 4, 7, 7]
    return CharacteristicFunction(b, 3, cols)


def validate_characteristic(p, lam):
    """Columns at every vertex's facet set must be linearly independent."""
    if lam.b.tubes != p.b.tubes:
        raise ValidationError("matrix indexed by a different facet list")
    n = p.dim
    if lam.rows != n:
        return False
    for vertex in p.vertices:
        if gf2_rank([lam.columns[i] for i in vertex]) != n:
            return False
    return True


def is_orientable_smallcover(lam):
    """Whether some GF(2) functional sends every column to 1.

    Equivalently the all-ones row lies in the row space, which is the
    combinatorial criterion for the glued manifold to be orientable.
    """
    # The row lies in the row space exactly when adjoining it keeps the rank.
    cols = lam.columns
    return gf2_rank(cols) == gf2_rank([c | 1 << lam.rows for c in cols])


def _echelon(vectors):
    """Reduced echelon basis, sorted by decreasing leading bit."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return tuple(basis)


def _coset_minima(basis, rank):
    """The least element of g + span(basis), for every g < 2^rank.

    ``basis`` is a reduced echelon basis, so the minimum is g with the
    basis vector of each leading bit that g has added in; that map is
    linear, and the table doubles one bit at a time.

    >>> _coset_minima((0b11,), 2)
    [0, 1, 1, 0]
    """
    lead = {b.bit_length() - 1: b for b in basis}
    table = [0]
    for i in range(rank):
        image = (1 << i) ^ lead.get(i, 0)
        table += [y ^ image for y in table]
    return table


@dataclass
class GluedManifold:
    """A complex assembled from mirror copies of one polytope.

    Construction builds only the coset table of every face
    (``_reduced``), from which ``cellular()``, ``homology()`` and
    ``orientation()`` work.  The simplicial gluing is built and
    budget-checked on the first read of ``complex``, after ``_certify``
    has shown on bar(P) and the coset tables that it is a
    vertex-determined pseudomanifold.
    """
    poset: object
    rank: int
    columns: tuple
    what: str
    _reduced: dict = field(repr=False)      # polytope face -> coset minimum per g
    _cellular: ChainComplex = field(default=None, repr=False, compare=False)

    def n_copies(self):
        return 1 << self.rank

    @cached_property
    def complex(self):
        """The barycentric subdivision of every copy, glued simplex by
        simplex; built on first read, after the gluing is certified on
        bar(P) and the coset tables.  The complex carries the verdicts
        of ``pseudo_manifold_check`` and ``is_vertex_determined`` that
        the certificate implies, so neither runs on it."""
        p = self.poset
        # A vertex of the simple polytope lies on p.dim! complete flags.
        check_budget(self.what,
                     len(p.vertices) * factorial(p.dim) << self.rank)
        bar = _certified_bar(p, self.what)
        self._certify(bar)
        complex_ = self._glue(bar)
        record_passed_checks(complex_)
        return complex_

    def _certify(self, bar):
        """Raise ``ValidationError`` unless the gluing of copies of
        ``bar`` = bar(P) through the coset tables is a vertex-determined
        pseudomanifold, shown on bar(P) and the tables alone.  Condition 1
        is bar(P)'s half, which ``_certified_bar`` has checked once per
        polytope; this checks the tables' half, 2 to 4, on every gluing:

        1. bar(P) passes ``validate``, ``is_pure`` and
           ``is_vertex_determined``, every top cell ends in P, and each
           facet lies in two top cells when its chain contains P and in
           one otherwise (the diamond property of a face lattice);
        2. every face F's table r_F sends each copy g to a copy r_F(g) <= g
           that it fixes, and composes with the table of each facet F+t
           of F: r_{F+t}(r_F(g)) = r_{F+t}(g);
        3. the whole polytope's table is the identity;
        4. every facet's table takes each of its values exactly twice.

        Glued cell (g, b) is (r_F(g), b), F = F(b) the largest face of
        chain b, and its vertex at slot s is (r_{F_s}(g), v_s) for the
        face F_s at vertex v_s of b.  By 2, and by induction along a
        chain of facets, r_G(r_F(g)) = r_G(g) for every face G of F, so
        the face of (g, b) at slot s is (r_{F(b_s)}(g), b_s), whose
        vertices are those of (g, b) with slot s dropped exactly when
        b's are: ``validate`` on the gluing reduces to ``validate`` on
        bar(P), and a (k-1)-cell (r, c) with c a face of b is the face
        of (r, b), so purity carries over too.  Every top cell of bar(P)
        ends in P, so by 3 the glued top cells are the pairs (g, b), one
        per copy and top cell.  An (n-1)-cell (r, c) whose chain contains
        P has r_P = identity and lies in (r, b) for the two top cells b
        over c; one whose chain misses P has F(c) a facet, and lies in
        (g, c + P) for the two copies g with r_F(c)(g) = r, by 4: every
        glued facet is hit twice.  Two glued cells on one vertex set have
        one bar cell b, and the vertex on F(b) carries r_F(b)(g) itself,
        so the gluing is vertex-determined as bar(P) is.  Cost per
        gluing: O(sum over faces F of facets(F) * 2^rank), and O(|bar(P)|)
        on a polytope's first two sights only, against
        O(2^rank * |bar(P)|) for the generic checks on the glued complex.
        """
        reduced = self._reduced

        def fail(why):
            raise ValidationError(f"{self.what} gluing failed: {why}")

        faces = [label[1] for label in bar.vertex_labels]
        copies = range(1 << self.rank)
        for face in faces:
            table = reduced.get(face)
            if (table is None or not all(map(le, table, copies))
                    or list(map(table.__getitem__, table)) != table):
                fail(f"the coset table of face {face} does not send each "
                     "copy g to a fixed point r <= g")
        for face in faces:
            table = reduced[face]
            for i in range(len(face)):
                parent = face[:i] + face[i + 1:]
                if list(map(table.__getitem__, reduced[parent])) != table:
                    fail(f"the coset table of face {face} does not compose "
                         f"with that of face {parent}")
        if reduced[self.poset.faces_by_size[0][0]] != list(copies):
            fail("the whole polytope's coset table is not the identity")
        for face in faces:
            if len(face) == 1 and set(Counter(reduced[face]).values()) != {2}:
                fail(f"the coset table of facet {face} does not take "
                     "each value twice")

    def _glue(self, bar):
        """The glued complex of copies of ``bar`` = bar(P).

        Cells are numbered in order of (coset minimum g, bar cell): the
        cell of bar cell b in copy g is new where g is its own minimum,
        else it is the cell of b in that minimum's copy.  One pass over
        the copies and bar cells of a level numbers its cells, and lists
        the bar cell of each new one and how many are new in each copy.
        The new cells' vertices and faces are then read, one column at a
        time, off the bar complex's columns and looked up in the cell ids
        of their copy.
        """
        n = self.poset.dim
        bar_faces = [label[1] for label in bar.vertex_labels]
        copies = range(1 << self.rank)
        ids = [None] * (n + 1)     # per dim, per g: bar cell -> cell id
        vertex_columns = [None] * (n + 1)
        face_columns = [None] * (n + 1)
        for k in range(n + 1):
            # Each chain cell is pinned by its largest face (the last vertex of
            # the sorted simplex): that face's span is the smallest along the chain.
            pins = [self._reduced[bar_faces[v]] for v in bar.vertex_columns[k][-1]]
            rows = ids[k] = []
            new_cell, new_counts = [], []
            for g in copies:
                row = []
                before = len(new_cell)
                for cid, pin in enumerate(pins):
                    r = pin[g]
                    if r != g:
                        row.append(rows[r][cid])
                    else:
                        row.append(len(new_cell))
                        new_cell.append(cid)
                rows.append(row)
                new_counts.append(len(new_cell) - before)

            def new_copies():
                """The copy of each new cell, in order."""
                return chain.from_iterable(map(repeat, copies, new_counts))

            if k == 0:
                labels = list(zip(map(bar_faces.__getitem__, new_cell),
                                  new_copies()))
                continue

            def looked_up(col, j):
                """Column ``col`` of the bar complex at the new cells, as
                the ids of j-cells in their copies."""
                out = [0] * len(new_cell)   # sized up front: no spare slots
                out[:] = map(getitem, map(ids[j].__getitem__, new_copies()),
                             map(col.__getitem__, new_cell))
                return out

            vertex_columns[k] = [looked_up(col, 0)
                                 for col in bar.vertex_columns[k]]
            face_columns[k] = [looked_up(col, k - 1)
                               for col in bar.face_columns[k]]
            if k > 1:
                ids[k - 1] = None
        return SimplicialCellComplex.from_columns(
            n, len(labels), vertex_columns, face_columns, vertex_labels=labels)

    def cellular(self):
        """The cellular chain complex, built on first use.

        Cells of degree d are the pairs (face F with n - d tubes, g reduced
        modulo the span of F's columns), and the boundary of (F, g) is the
        sum over F's facets F+t of [F : F+t] (F+t, g reduced modulo the
        span of F+t's columns).

        >>> from nestotope.nestohedron import face_poset
        >>> lam = lambda_tomei(2)
        >>> m = small_cover(face_poset(lam.b), lam)
        >>> m.cellular().cell_counts()
        (6, 12, 4)
        >>> m.homology().betti_q
        (1, 4, 1)
        """
        if self._cellular is None:
            p = self.poset
            n = p.dim
            reduced = self._reduced
            ids = []   # per degree: (face, reduced g) -> cell
            for d in range(n + 1):
                cells = {}
                for g in range(1 << self.rank):
                    for face in p.faces_by_size[n - d]:
                        cells.setdefault((face, reduced[face][g]), len(cells))
                ids.append(cells)
            boundaries = [{}]
            for d in range(1, n + 1):
                rows = ids[d - 1]
                entries = {}
                for (face, g), col in ids[d].items():
                    for facet, sign in p.incidences[face]:
                        entries[rows[(facet, reduced[facet][g])], col] = sign
                boundaries.append(entries)
            self._cellular = ChainComplex([len(c) for c in ids], boundaries)
        return self._cellular

    def homology(self):
        return homology(self.cellular())

    def orientation(self):
        """Signs e_g with sum e_g (P, g) an integral top cycle, one per copy,
        or "non-orientable" when there are none.

        The facet cell (t, g mod lambda_t) lies in copies g and
        g + lambda_t, with incidence +1 in both, so the signs exist exactly
        when e(g + lambda_t) = -e(g) for every facet t (Nakayama and
        Nishimura, Osaka J. Math. 42, 2005).  ``sign_walk`` over the copies
        finds them, fixed up to one flip per component, and
        ``is_top_cycle`` then checks their sum on ``cellular()``, whose top
        cell g is (P, g).
        """
        steps = set(self.columns)
        sign = sign_walk(self.n_copies(), lambda g: [(g ^ c, -1) for c in steps])
        if sign is None:
            return "non-orientable"
        if not is_top_cycle(self.cellular(), sign):
            raise ValidationError(f"{self.what}: the signed copies have "
                                  "a nonzero cellular boundary")
        return tuple(sign)


def _certified_bar(p, what):
    """bar(P) of the poset ``p``, once it has passed condition 1 of
    ``GluedManifold._certify``: ``validate``, ``is_pure`` and
    ``is_vertex_determined``, every top cell ending in P, and each facet
    in two top cells when its chain contains P and in one otherwise.  A
    failure raises, naming the gluing ``what``.

    bar(P) is a function of the poset's dimension and faces, and the
    memo keys it on them, so a hand-built poset with other faces gets its
    own; a stored bar(P) has passed, and is counted at its cells and the
    faces of its key.
    """
    n = p.dim

    def certified():
        def fail(why):
            raise ValidationError(f"{what} gluing failed: {why}")

        bar = barycentric_complex(p)
        if not (bar.validate() and bar.is_pure()
                and bar.is_vertex_determined()):
            fail("bar(P) is not a vertex-determined pure complex")
        whole = [label[1] for label in bar.vertex_labels].index(
            p.faces_by_size[0][0])
        # a chain's last vertex is its largest face
        if any(v != whole for v in bar.vertex_columns[n][-1]):
            fail("a top cell of bar(P) misses the whole polytope")
        hits = [0] * bar.n_cells(n - 1)
        for f in chain.from_iterable(bar.face_columns[n]):
            hits[f] += 1
        for f, (v, count) in enumerate(zip(bar.vertex_columns[n - 1][-1],
                                           hits)):
            if count != 1 + (v == whole):
                fail(f"facet {f} of bar(P) lies in {count} top cells")
        return bar

    faces = sum(p.f_counts())
    return _MEMO.fetch(("bar", n, p.faces_by_size), faces, certified,
                       lambda bar: bar.total_cells() + faces)


def _mirror_copies(p, columns, rank, what):
    """The coset table of every face, after refusing a cell complex of
    more than CELL_BUDGET cells.  Each face's columns are independent, so a
    face with k tubes gives 2^(rank - k) cells."""
    cells = sum(len(level) << rank - k
                for k, level in enumerate(p.faces_by_size))
    check_budget(what, cells, "cells")
    reduced = {face: _coset_minima(_echelon([columns[i] for i in face]), rank)
               for level in p.faces_by_size for face in level}
    return GluedManifold(p, rank, tuple(columns), what, reduced)


def real_moment_angle(p):
    """Glue one copy per subset of facets (identity columns).

    The result is always orientable (e_g = (-1)^|g| is a top cycle), and
    ``orientation()`` confirms it on the cells before returning.
    """
    m = len(p.b.proper_tubes)
    glued = _mirror_copies(p, [1 << j for j in range(m)], m,
                           "moment-angle manifold")
    if glued.orientation() == "non-orientable":
        raise ValidationError("moment-angle gluing came out non-orientable")
    return glued


def small_cover(p, lam):
    """Glue 2^n copies through a valid characteristic matrix."""
    if not validate_characteristic(p, lam):
        raise ValidationError("matrix is not characteristic: "
                              "columns at some vertex are dependent")
    return _mirror_copies(p, lam.columns, lam.rows, "small cover")


def orientation_cover_via_eta(p, lam):
    """Orientation cover of a non-orientable small cover, built directly.

    The matrix gains one extra row that is 1 on every facet, so twice as
    many copies are glued, and that row is a functional taking 1 on every
    column, which ``orientation()`` confirms on the cells before
    returning.  Orientable input would split the result into two
    components, which is refused.
    """
    if not validate_characteristic(p, lam):
        raise ValidationError("matrix is not characteristic: "
                              "columns at some vertex are dependent")
    if is_orientable_smallcover(lam):
        raise ValidationError("orientation cover is disconnected; use two copies")
    n = lam.rows
    cols = [c | (1 << n) for c in lam.columns]
    glued = _mirror_copies(p, cols, n + 1, "orientation cover")
    if glued.orientation() == "non-orientable":
        raise ValidationError("orientation cover came out non-orientable")
    return glued


def betti_z2_matches_h(p, lam):
    """Mod-2 Betti numbers of the glued manifold, by GF(2) elimination on
    its cells, against the h-vector."""
    from .nestohedron import face_vectors
    got = homology_z2(small_cover(p, lam).cellular())
    return tuple(got) == tuple(face_vectors(p).h)


def cover_betti_match(base_q, cover_q):
    """Rational Betti relation between a manifold and its orientation
    cover: each degree gains the complementary degree of the base."""
    n = len(base_q) - 1
    return all(cover_q[i] == base_q[i] + base_q[n - i] for i in range(n + 1))


def enumerate_characteristics(p):
    """Every valid matrix on the polytope, by brute force over columns.

    Only sensible for tiny facet counts; refuses anything larger.
    """
    n = p.dim
    m = len(p.b.proper_tubes)
    total = (2 ** n - 1) ** m
    check_budget("characteristic enumeration", total, "candidate matrices",
                 1_000_000)
    out = []
    def rec(cols):
        j = len(cols)
        if j == m:
            lam = CharacteristicFunction(p.b, n, cols)
            if validate_characteristic(p, lam):
                out.append(lam)
            return
        for c in range(1, 2 ** n):
            # prune: any vertex fully inside cols so far must stay independent
            cols.append(c)
            ok = True
            for vertex in p.vertices:
                if all(i < j + 1 for i in vertex):
                    if gf2_rank([cols[i] for i in vertex]) != n:
                        ok = False
                        break
            if ok:
                rec(cols)
            cols.pop()
    rec([])
    return out


def lambda_from_json_dict(b, data):
    try:
        rows = json_int(data["rows"], "'rows'")
        raw = data["columns"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"matrix JSON needs rows and columns: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("matrix JSON columns must map facets to bit lists")
    cols = []
    seen = set()
    for t in b.proper_tubes:
        key = ",".join(str(v) for v in members(t))
        if key not in raw:
            raise ValidationError(f"matrix JSON misses facet {{{key}}}")
        bits = raw[key]
        if (not isinstance(bits, list) or len(bits) != rows
                or any(json_int(x, f"facet {{{key}}} bit") not in (0, 1)
                       for x in bits)):
            raise ValidationError(f"facet {{{key}}} column is not {rows} bits")
        seen.add(key)
        cols.append(sum(bit << i for i, bit in enumerate(bits)))
    extra = set(raw) - seen
    if extra:
        raise ValidationError(f"matrix JSON names unknown facets: {sorted(extra)}")
    return CharacteristicFunction(b, rows, cols)


def lambda_from_spec(b, text):
    """Named matrix or a JSON file path."""
    if text == "can":
        return lambda_can(b)
    if text == "tomei":
        lam = lambda_tomei(b.n_vertices - 1)
        if lam.b.tubes != b.tubes:
            raise ValidationError("tomei matrix lives on the complete graph")
        return lam
    if text == "star":
        lam = lambda_star_as3()
        if lam.b.tubes != b.tubes:
            raise ValidationError("star matrix lives on the 4-vertex path")
        return lam
    return lambda_from_json_dict(b, read_json(text, "matrix"))
