"""Simplicial cell complexes with explicit face structure, and their homology.

A simplicial cell complex is assembled from closed simplices glued along
faces.  Unlike a simplicial complex, a cell is not determined by its vertex
set: a circle can be built from two arcs on the same two vertices.  What is
forbidden is identifying two faces of one and the same simplex, so a circle
made of a single self-glued arc is not allowed.

Each k-cell has an ordered (k+1)-tuple of vertex ids and a (k+1)-tuple of
references to (k-1)-cells.  The convention throughout: the face at slot i
carries the cell's vertices with slot i deleted, order preserved.  Gluings
are therefore order-preserving on vertex tuples, boundary maps use the
usual alternating slot signs, and the double-face identities are checked by
``validate`` rather than assumed.

Level k is stored as slot columns, not as tuples: ``vertex_columns[k]`` and
``face_columns[k]`` are k + 1 lists of ints each, column s holding every
k-cell's vertex (or face) at slot s, so a cell costs 2(k + 1) list slots
and no tuple; a reader that wants a level's rows zips its columns.
Builders write columns (the gluing, the stock complexes through
``from_top_simplices``, the substitution subdivision); the raw constructor
takes rows, refuses (``ValidationError``) a level whose rows are not all
k + 1 long or not one face row per cell, and transposes them once.  The
structural checks (``validate``, ``is_pure``, ``is_vertex_determined`` and
the two-hit facet test of ``pseudo_manifold_check``), orientation and the
boundary matrices read the columns, never one cell at a time.  The
verdicts of ``pseudo_manifold_check`` and ``is_vertex_determined`` are
memoised on the complex.  Stock spheres, path subdivisions (which are
barycentric subdivisions) and JSON input run the checks themselves; a
gluing of mirror copies is certified on bar(P) and its coset tables
instead, and a substitution subdivision on bar(Z) and its simplex piece,
and ``record_passed_checks`` hands the verdicts to the built complex, so
the checks never run on it (``is_vertex_determined`` still runs on a
substitution subdivision, whose certificate does not prove it).  Double
faces are compared only on levels where two (k-2)-cells share a vertex
tuple: elsewhere the vertex checks already force the identities.
``subfaces`` lists all subcells of a cell in one table indexed by the
bitmask of kept slots; a flag of the barycentric subdivision is the chain
of growing masks of one slot permutation.  Stock spheres and barycentric
subdivisions count their cells in closed form and refuse
(``BudgetExceeded``) before building more than CELL_BUDGET.

Orientation reads ``facet_pairs``, the hits t * (n + 1) + slot sorted by
facet, and spreads signs with ``sign_walk``, which glued manifolds share;
``is_top_cycle`` checks given signs on a complex or a chain complex.

Homology is computed from integer Smith normal forms of the boundary
matrices, in one sparse loop that builds no dense matrix: unit pivots chosen
Markowitz-style, division by the gcd of the entries when no unit is left,
and, when that gcd is 1, a remainder step that makes a smaller entry.
Rational and mod-2 Betti numbers both fall out of the elementary
divisors.  ``homology_z2`` is an independent GF(2) column reduction with
clearing, the fast path and a cross-check.  Nearly every column meets no
pivot: the builders number faces in the order their cells first reach
them, so a cell's highest face is mostly one that no earlier cell has.
Such a column is stored as its index, whose faces the complex already
holds; only a column that took a reduction step is stored, as bits above
its lowest row.  On a complex that has passed ``pseudo_manifold_check``
the top columns sum to zero, and the last is skipped.  ``homology`` and
``homology_z2`` read only cell counts and boundary matrices, so they also
take a bare ``ChainComplex``: glued manifolds hand them the cell structure
of Davis and Januszkiewicz
("Convex polytopes, Coxeter orbifolds and torus actions", Duke Math. J.
62, 1991), with one d-cell per d-face of the polytope and coset of the
face's span, which for a small cover is f_d * 2^d cells in degree d.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import (accumulate, chain, combinations, islice, pairwise,
                       permutations, repeat)
from math import factorial, gcd
from operator import add, eq, itemgetter, lt, mul

from .errors import ValidationError, check_budget, json_int, read_json
from .graphs import members


def _transpose(rows, width):
    """The ``width`` columns of equal-length rows, as lists."""
    return [list(map(itemgetter(s), rows)) for s in range(width)]


def _row_keys(columns, base):
    """One int per row of ``columns``, its entries read as digits in base
    ``base``: where every entry lies in one interval of ``base`` ints, two
    rows get the same key exactly when they are equal.  The keys are
    made one at a time, as they are read."""
    keys = iter(columns[0])
    for col in columns[1:]:
        keys = map(add, map(mul, keys, repeat(base)), col)
    return keys


def _marked(size, indexes):
    """``size`` bytes, 1 at each of ``indexes`` and 0 elsewhere, set in
    one pass that keeps nothing else."""
    flags = bytearray(size)
    deque(map(flags.__setitem__, indexes, repeat(1)), maxlen=0)
    return flags


def _all_distinct(keys):
    """Whether no two keys are equal; sorted, they cost one list slot
    each beyond themselves, about half of what a set costs."""
    keys = sorted(keys)
    return not any(map(eq, keys, islice(keys, 1, None)))


class SimplicialCellComplex:
    def __init__(self, dim, vertex_count, cell_vertices, cell_faces, vertex_labels=None):
        """Raw constructor from rows; prefer the ``from_*`` builders.

        cell_vertices[k] lists, for every k-cell, its ordered vertex ids;
        cell_faces[k] lists the ids of its facets by slot (entry 0 of both
        is unread).  Each level is transposed into columns once.  A level
        with fewer or more face rows than cells, or with a row that is not
        k + 1 long, raises ``ValidationError``.
        """
        vertex_columns = [None]
        face_columns = [None]
        for k in range(1, dim + 1):
            verts, faces = list(cell_vertices[k]), list(cell_faces[k])
            if len(faces) != len(verts):
                raise ValidationError(
                    f"level {k} has {len(faces)} face rows for {len(verts)} cells")
            for row in chain(verts, faces):
                if len(row) != k + 1:
                    raise ValidationError(
                        f"a row of level {k} has {len(row)} entries, not {k + 1}")
            vertex_columns.append(_transpose(verts, k + 1))
            face_columns.append(_transpose(faces, k + 1))
        self._store(dim, vertex_count, vertex_columns, face_columns, vertex_labels)

    @classmethod
    def from_columns(cls, dim, vertex_count, vertex_columns, face_columns,
                     vertex_labels=None):
        """The complex whose level k, for k = 1..dim, has the k + 1 vertex
        columns ``vertex_columns[k]`` and the k + 1 face columns
        ``face_columns[k]``, all of one length; entry 0 of both is unread.
        The column lists are kept, not copied, and their shape is not
        checked."""
        c = cls.__new__(cls)
        c._store(dim, vertex_count, vertex_columns, face_columns, vertex_labels)
        return c

    def _store(self, dim, vertex_count, vertex_columns, face_columns,
               vertex_labels):
        self.n = dim
        self.vertex_columns = [[list(range(vertex_count))]] + [
            list(vertex_columns[k]) for k in range(1, dim + 1)]
        self.face_columns = [[]] + [list(face_columns[k]) for k in range(1, dim + 1)]
        self.vertex_labels = list(vertex_labels) if vertex_labels is not None else None
        self._pseudo_failures = None   # memoised by pseudo_manifold_check
        self._vertex_determined = None  # memoised by is_vertex_determined

    # -- basic queries ------------------------------------------------------

    def n_cells(self, k):
        if k < 0 or k > self.n:
            return 0
        return len(self.vertex_columns[k][0])

    def cell_counts(self):
        return tuple(self.n_cells(k) for k in range(self.n + 1))

    def total_cells(self):
        return sum(self.cell_counts())

    def euler_characteristic(self):
        return sum((-1) ** k * self.n_cells(k) for k in range(self.n + 1))

    def subfaces(self, k, cid):
        """Every subcell of the k-cell ``cid``, indexed by the bitmask of the
        slots it keeps: entry ``mask`` is the (dim, id) of the face on those
        slots, and entry 0 is None.

        One pass over the masks in decreasing order fills the table:
        dropping slot s from a mask takes the face at s's position among
        the kept slots.  Each entry is written last from the mask with its
        lowest missing slot put back, which is the face reached by dropping
        the missing slots from the highest down.
        """
        table = [None] * (2 << k)
        table[-1] = (k, cid)
        for mask in range(len(table) - 1, 0, -1):
            d, c = table[mask]
            m = mask
            for col in self.face_columns[d]:
                low = m & -m
                table[mask ^ low] = (d - 1, col[c])
                m ^= low
        return table

    def facet_pairs(self):
        """The hits t * (n + 1) + slot of top cells on their facets, sorted
        by facet; on a pseudomanifold entries 2f and 2f + 1 are facet f's."""
        cols = self.face_columns[self.n]
        hits = [0] * (len(cols) * self.n_cells(self.n))
        for slot, col in enumerate(cols):
            hits[slot::len(cols)] = col
        return sorted(range(len(hits)), key=hits.__getitem__)

    def boundary_entries(self, k):
        """Sparse integer boundary matrix of degree k as {(row, col): coef}."""
        entries = {}
        for c, faces in enumerate(zip(*self.face_columns[k])):
            for slot, f in enumerate(faces):
                key = (f, c)
                entries[key] = entries.get(key, 0) + (-1) ** slot
        return {key: v for key, v in entries.items() if v != 0}

    # -- validity -----------------------------------------------------------

    def validate(self):
        """Cell-complex conditions: distinct vertices per cell, consistent
        face/vertex bookkeeping, and the double-face identities.  Returns
        True or False.

        Each level is checked on its stored columns, never cell by cell:
        face column s holds every cell's face at slot s, and vertex column
        q every cell's vertex at position q.  The face at slot s carries
        the cell's vertices with slot s deleted when, for every position q,
        vertex column q of the faces in column s is the cell's vertex
        column q (q < s) or q + 1 (q >= s).  Distinct vertices are checked
        on edges only: once its faces carry the right vertices, any two
        vertices of a k-cell, k >= 2, lie in a common face.  Both double
        faces of a k-cell then carry the same vertex tuple, the cell's
        vertices with slots i and j dropped.  So on a level whose
        (k-2)-cells have pairwise distinct vertex tuples (one int key per
        cell tells) the double-face identities hold, and only the other
        levels check them.
        """
        vcols, fcols = self.vertex_columns, self.face_columns
        for k in range(1, self.n + 1):
            vk, fk, below = vcols[k], fcols[k], vcols[k - 1]
            if k == 1 and any(map(eq, *vk)):
                return False
            for s, col in enumerate(fk):
                if min(col, default=0) < 0 or max(col, default=-1) >= len(below[0]):
                    return False
                for q, face_vcol in enumerate(below):
                    if list(map(face_vcol.__getitem__, col)) != vk[q + (q >= s)]:
                        return False
            # both double faces carry the same vertex tuple, so where no two
            # (k-2)-cells share one they are the same cell
            if k < 2 or _all_distinct(_row_keys(vcols[k - 2], self.n_cells(0))):
                continue
            below_f = fcols[k - 1]
            for i, j in combinations(range(k + 1), 2):
                if (list(map(below_f[i].__getitem__, fk[j]))
                        != list(map(below_f[j - 1].__getitem__, fk[i]))):
                    return False
        return True

    def is_pure(self):
        """Every cell lies in a top cell.  Level by level from the top, the
        faces of all k-cells must be every (k-1)-cell, each marked in one
        byte: a level that passes has shown that all its cells are
        reached."""
        return not any(
            0 in _marked(self.n_cells(k - 1),
                         chain.from_iterable(self.face_columns[k]))
            for k in range(self.n, 0, -1))

    def is_vertex_determined(self):
        """No two distinct cells share the same vertex set, checked level by
        level upwards.  A level whose vertex columns increase strictly,
        cell by cell, stores sorted vertex tuples, and each of its cells is
        keyed by one int, its vertices read as digits off the columns;
        only the other levels are sorted cell by cell.  A complex is never
        changed after its constructor, so the verdict is memoised on it,
        as ``pseudo_manifold_check`` memoises its own.
        """
        if self._vertex_determined is None:
            self._vertex_determined = self._distinct_vertex_sets()
        return self._vertex_determined

    def _distinct_vertex_sets(self):
        for k in range(1, self.n + 1):
            cols = self.vertex_columns[k]
            if not all(all(map(lt, a, b)) for a, b in pairwise(cols)):
                keys = map(sorted, zip(*cols))
            else:
                # entries lie between the least of the first column and the
                # greatest of the last
                base = max(cols[-1], default=0) - min(cols[0], default=0) + 1
                keys = _row_keys(cols, base)
            if not _all_distinct(keys):
                return False
        return True

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_top_simplices(cls, tops, vertex_labels=None):
        """Vertex-determined build: lower cells are identified exactly when
        their (sorted) vertex sets agree; top cells stay distinct per list
        entry, so doubled entries model doubled cells."""
        tops = [tuple(t) for t in tops]
        if not tops:
            raise ValidationError("no top cells given")
        dim = len(tops[0]) - 1
        if any(len(t) != dim + 1 for t in tops):
            raise ValidationError("top cells of mixed dimension")
        for t in tops:
            if len(set(t)) != dim + 1:
                raise ValidationError(f"repeated vertex in top cell {t}")
        if vertex_labels is None:
            vertex_labels = sorted({v for t in tops for v in t})
        vid = {lab: i for i, lab in enumerate(vertex_labels)}
        levels = [None] * (dim + 1)
        levels[dim] = [tuple(sorted(vid[v] for v in t)) for t in tops]
        index = [None] * (dim + 1)
        for k in range(dim - 1, 0, -1):
            idx = {}
            for verts in levels[k + 1]:
                for slot in range(k + 2):
                    sub = verts[:slot] + verts[slot + 1:]
                    if sub not in idx:
                        idx[sub] = len(idx)
            pairs = sorted(idx.items(), key=lambda kv: kv[1])
            levels[k] = [verts for verts, _ in pairs]
            index[k] = idx
        vertex_columns = [None] * (dim + 1)
        face_columns = [None] * (dim + 1)
        for k in range(1, dim + 1):
            rows = levels[k]
            vertex_columns[k] = _transpose(rows, k + 1)
            if k == 1:
                # the face at either slot of an edge is its other vertex
                face_columns[k] = [list(col) for col in vertex_columns[k][::-1]]
            else:
                idx = index[k - 1]
                face_columns[k] = [
                    [idx[verts[:slot] + verts[slot + 1:]] for verts in rows]
                    for slot in range(k + 1)]
        return cls.from_columns(dim, len(vertex_labels), vertex_columns,
                                face_columns, vertex_labels)


# ---------------------------------------------------------------------------
# Pseudo-manifold structure and orientation.


@dataclass
class PseudoManifoldCertificate:
    dim: int
    is_pseudo: bool
    failures: list = field(default_factory=list)
    orientation: object = None  # tuple of +-1 per top cell, or "non-orientable"


def _hit_twice(c):
    """Whether the facet ids of all top cells, sorted, read 0, 0, 1, 1, ...
    up to the last (n-1)-cell: every facet lies in exactly two top cells."""
    hits = sorted(chain.from_iterable(c.face_columns[c.n]))
    facets = range(c.n_cells(c.n - 1))
    return (len(hits) == 2 * len(facets)
            and all(map(eq, hits, chain.from_iterable(zip(facets, facets)))))


def pseudo_manifold_check(c):
    """Pure + every (n-1)-cell in exactly two top cells, counted with slots.

    The two-hit test sorts the facet ids of all top cells at once; the
    hits are counted per facet only to word its failures.  A complex is
    never changed after its constructor, so the verdict (the tuple of
    failures) is memoised on it and the checks run once per complex.
    Each call still returns a fresh certificate, which callers such as
    ``orient`` may fill in and change.
    """
    if c._pseudo_failures is None:
        failures = []
        if not c.validate():
            failures.append("not a valid simplicial cell complex")
        elif not c.is_pure():
            failures.append("not pure: some cell lies in no top cell")
        elif not _hit_twice(c):
            counts = [0] * c.n_cells(c.n - 1)
            for f in chain.from_iterable(c.face_columns[c.n]):
                counts[f] += 1
            for f, count in enumerate(counts):
                if count != 2:
                    failures.append(
                        f"(n-1)-cell {f} lies in {count} top cells, expected 2"
                    )
                    if len(failures) > 20:
                        failures.append("...")
                        break
        c._pseudo_failures = tuple(failures)
    failures = c._pseudo_failures
    return PseudoManifoldCertificate(c.n, not failures, list(failures))


def passed_pseudo_manifold_check(c):
    """Whether ``pseudo_manifold_check`` has already passed ``c``, read
    from its memoised verdict; False when the check failed or has not run
    on ``c``, which this never runs."""
    return c._pseudo_failures == ()


def record_passed_checks(c, vertex_determined=True):
    """Memoise on ``c`` that ``pseudo_manifold_check`` passes, and that
    ``is_vertex_determined`` does unless ``vertex_determined`` is False,
    without running them: for a builder that has proved them on smaller
    data.  A gluing, certified on bar(P) and its coset tables, proves
    both; a substitution subdivision, certified on bar(Z) and its simplex
    piece, proves the first only, and ``is_vertex_determined`` still runs
    on it when asked."""
    c._pseudo_failures = ()
    if vertex_determined:
        c._vertex_determined = True


def sign_walk(size, neighbours):
    """Signs +-1 on the cells 0..size-1 with sign[u] = rel * sign[t] for
    every pair (u, rel) in ``neighbours(t)``, or None when no such signs
    exist.  The least cell of each connected component takes +1.
    """
    sign = [0] * size
    for start in range(size):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for u, rel in neighbours(t):
                want = rel * sign[t]
                if not sign[u]:
                    sign[u] = want
                    stack.append(u)
                elif sign[u] != want:
                    return None
    return sign


def is_top_cycle(c, sign):
    """Whether the signed top cells have zero boundary; ``c`` is a
    ``SimplicialCellComplex`` or a ``ChainComplex``."""
    acc = {}
    for (row, col), v in c.boundary_entries(c.n).items():
        acc[row] = acc.get(row, 0) + sign[col] * v
    return not any(acc.values())


def orient(c):
    """Propagate top-cell signs across facets; detect non-orientability.

    Two top cells sharing a facet must induce opposite orientations on it,
    which fixes their relative sign as (-1)^(slot1+slot2+1); ``sign_walk``
    spreads the signs from each hit to its partner in ``facet_pairs``.
    The certificate carries the sign vector on success and the string
    "non-orientable" on a contradiction.  Signs on each facet-connected
    component are fixed only up to a global flip.  The signed top cells
    need no boundary check: each facet lies in exactly two top cells,
    whose two terms the walk cancels.
    """
    cert = pseudo_manifold_check(c)
    if not cert.is_pseudo:
        return cert
    m = c.n + 1
    pairs = c.facet_pairs()
    partner = [0] * len(pairs)
    for a, b in zip(pairs[::2], pairs[1::2]):
        partner[a], partner[b] = b, a

    def neighbours(t):
        # slots of equal parity induce equal orientations, so the sign
        # flips; a point (n = 0) has no facets and no neighbours
        for slot, hit in enumerate(partner[t * m:t * m + m]):
            u, other = divmod(hit, m)
            yield u, 1 if (slot ^ other) & 1 else -1

    sign = sign_walk(c.n_cells(c.n), neighbours)
    cert.orientation = "non-orientable" if sign is None else tuple(sign)
    return cert


def barycentric_subdivide(c):
    """Barycentric subdivision; always a true simplicial complex.

    Vertices are the cells of ``c`` labelled (dim, id); top simplices are the
    complete flags of iterated faces inside each top cell, one per permutation
    of its slots.  Each bar vertex is naturally coloured by the dimension of
    the cell it subdivides, and sorted labels list a simplex's vertices in
    increasing colour, which downstream code relies on.
    """
    n = c.n
    check_budget("barycentric subdivision", c.n_cells(n) * factorial(n + 1))
    # one flag per slot permutation: the masks of its growing prefixes
    chains = [tuple(accumulate(1 << s for s in p))
              for p in permutations(range(n + 1))]
    tops = []
    for t in range(c.n_cells(n)):
        table = c.subfaces(n, t)
        tops.extend(tuple(table[m] for m in chain) for chain in chains)
    return SimplicialCellComplex.from_top_simplices(tops)


# ---------------------------------------------------------------------------
# Smith normal form and homology.


def smith_normal_form(entries):
    """(rank, elementary divisors) of an integer matrix given sparsely as
    {(row, col): value}.

    One sparse loop over row dicts and column sets, with three steps:

    (a) a unit pivot, chosen by Markowitz fill count, is eliminated, which
        keeps the arithmetic integral and the matrix sparse; it contributes
        the current scale as a divisor;
    (b) with no unit left, the matrix is divided by the gcd g of its
        entries and the scale multiplied by g, since SNF(g A) = g SNF(A);
    (c) with g = 1 and no unit, the entry v of least |v| leaves a nonzero
        remainder smaller than |v| by one row operation against an entry
        that v does not divide: in v's column, else in v's row (a row
        operation on the transpose, which has the same SNF).  If v divides
        its whole row and column, a row holding such an entry is first
        added to v's row.

    Each step (c) lowers the least |entry|, so the loop ends.  Divisors
    come back positive, each dividing the next.
    """
    rows, cols = _sparse(entries)
    divisors = []
    scale = 1
    while rows:
        best = None
        for r, row in rows.items():
            rl = len(row)
            for ch, v in row.items():
                if v == 1 or v == -1:
                    cost = (rl - 1) * (len(cols[ch]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, r, ch)
                        if cost == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is not None:
            _, pr, pc = best
            prow = rows.pop(pr)
            for ch in prow:
                col = cols[ch]
                col.discard(pr)
                if not col:
                    del cols[ch]
            pv = prow[pc]  # 1 or -1, so row[pc] * pv is row[pc] / pv
            for r in list(cols.get(pc, ())):
                _add_row(rows, cols, r, prow, rows[r][pc] * pv)
            divisors.append(scale)
            continue
        g = gcd(*(v for row in rows.values() for v in row.values()))
        if g > 1:
            for row in rows.values():
                for ch in row:
                    row[ch] //= g
            scale *= g
            continue
        _, r, c = min((abs(v), r, ch) for r, row in rows.items()
                      for ch, v in row.items())
        v = rows[r][c]
        if all(rows[i][c] % v == 0 for i in cols[c]):
            if all(w % v == 0 for w in rows[r].values()):
                i = next(i for i, row in rows.items()
                         if any(w % v for w in row.values()))
                if c in rows[i]:
                    _add_row(rows, cols, i, rows[r], rows[i][c] // v)
                _add_row(rows, cols, r, rows[i], -1)
            rows, cols = _sparse({(ch, i): w for i, row in rows.items()
                                  for ch, w in row.items()})
            r, c = c, r
        i = next(i for i in cols[c] if rows[i][c] % v)
        q = rows[i][c] // v
        if q:  # else adding row i above already left an entry below |v|
            _add_row(rows, cols, i, rows[r], q)
    return len(divisors), tuple(divisors)


def _sparse(entries):
    """Row dicts {row: {col: value}} and column sets {col: {row}} of the
    nonzero entries."""
    rows = {}
    cols = {}
    for (r, ch), v in entries.items():
        if v:
            rows.setdefault(r, {})[ch] = v
            cols.setdefault(ch, set()).add(r)
    return rows, cols


def _add_row(rows, cols, dst, src, q):
    """Row dst -= q * src (q != 0), keeping ``cols`` in step; a row that
    empties is dropped."""
    row = rows[dst]
    for ch, v in src.items():
        nv = row.get(ch, 0) - q * v
        if nv:
            if ch not in row:
                cols.setdefault(ch, set()).add(dst)
            row[ch] = nv
        else:
            del row[ch]
            col = cols[ch]
            col.discard(dst)
            if not col:
                del cols[ch]
    if not row:
        del rows[dst]


def _gf2_pivots(columns):
    """Column reduction over GF(2) of int bitmask columns: a dict from each
    pivot row (the highest set bit, the "lowest one") to its reduced column."""
    pivots = {}
    for col in columns:
        while col:
            h = col.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = col
                break
            col ^= p
    return pivots


def gf2_rank(columns):
    """Rank over GF(2) of columns given as int bitmasks."""
    return len(_gf2_pivots(columns))


class ChainComplex:
    """A free chain complex over Z: cell counts per degree and sparse
    boundary matrices, which is all ``homology`` reads.

    ``boundaries[k]`` is the boundary of degree k as {(row, col): coef},
    rows indexing (k-1)-cells; ``boundaries[0]`` is empty.
    """

    def __init__(self, counts, boundaries):
        self.n = len(counts) - 1
        self._counts = tuple(counts)
        self._boundaries = boundaries

    def n_cells(self, k):
        return self._counts[k] if 0 <= k <= self.n else 0

    def cell_counts(self):
        return self._counts

    def total_cells(self):
        return sum(self._counts)

    def euler_characteristic(self):
        return sum((-1) ** k * c for k, c in enumerate(self._counts))

    def boundary_entries(self, k):
        return self._boundaries[k]


@dataclass
class HomologyProfile:
    betti_q: tuple
    betti_z2: tuple
    torsion: tuple  # per degree, the elementary divisors > 1 of H_k
    euler: int


def homology(c):
    """Integral homology data in all degrees via Smith normal forms.

    Reads ``c.n``, ``n_cells``, ``boundary_entries`` and
    ``euler_characteristic``, so ``c`` is a ``SimplicialCellComplex`` or a
    ``ChainComplex``.
    """
    n = c.n
    ranks = [0] * (n + 2)
    odd_ranks = [0] * (n + 2)
    divisors = [()] * (n + 2)
    for k in range(1, n + 1):
        entries = c.boundary_entries(k)
        rank, divs = smith_normal_form(entries)
        ranks[k] = rank
        divisors[k] = divs
        odd_ranks[k] = sum(1 for d in divs if d % 2 == 1)
    betti_q = []
    betti_z2 = []
    torsion = []
    for k in range(n + 1):
        dim_k = c.n_cells(k)
        betti_q.append(dim_k - ranks[k] - ranks[k + 1])
        betti_z2.append(dim_k - odd_ranks[k] - odd_ranks[k + 1])
        torsion.append(tuple(d for d in divisors[k + 1] if d > 1))
    prof = HomologyProfile(tuple(betti_q), tuple(betti_z2), tuple(torsion),
                           c.euler_characteristic())
    alt = sum((-1) ** k * b for k, b in enumerate(prof.betti_q))
    if alt != prof.euler:
        raise ValidationError("Betti numbers violate the Euler relation")
    return prof


def _mod2_columns(c, k):
    """The rows of each column of the boundary of degree k, a repeated
    row cancelling, and a function from a column's index to its rows: a
    k-cell's faces, read off the face columns, or for a ``ChainComplex``
    the rows of the odd entries of its column."""
    if isinstance(c, ChainComplex):
        columns = [[] for _ in range(c.n_cells(k))]
        for (row, col), v in c.boundary_entries(k).items():
            if v & 1:
                columns[col].append(row)
        return columns, columns.__getitem__
    cols = c.face_columns[k]
    return zip(*cols), lambda j: [col[j] for col in cols]


def homology_z2(c):
    """Mod-2 Betti numbers by direct GF(2) elimination (fast path; also the
    independent cross-check for the Smith-normal-form route).  ``c`` is a
    ``SimplicialCellComplex`` or a ``ChainComplex``.

    Boundaries are reduced from the top degree down with clearing, the
    "twist" of Chen and Kerber ("Persistent homology computation with a
    twist", EuroCG 2011): each pivot row j of the reduced boundary of
    degree k+1 is the highest cell of a k-cycle, so column j of the
    boundary of degree k is a sum of the other columns and is skipped.
    Only the pivot rows are carried from one degree to the next, one byte
    per cell.

    Most columns take no reduction step, since a cell's highest face is
    mostly one no earlier cell has: the column's highest row (one max
    over its faces, not repeated) is not yet a pivot row, and the column
    is stored under it as its own index j, whose rows the complex already
    holds.  Only a column that meets a pivot is built, narrow: a base row
    ``low`` and an int ``bits`` whose bit i is row low + i.  A step XORs
    the pivot in, a pivot stored as an index face by face, and a column
    that steps and stays nonzero is stored as its (low, bits).  So the
    stored pivots cost one index each and the row span of the few reduced
    columns; no int as wide as the highest row is ever built.

    On a complex that ``pseudo_manifold_check`` has passed, every facet
    lies in exactly two top cells, so the top columns sum to zero and the
    last lies in the span of the others: it is skipped, not chased to
    zero through the other pivots.
    """
    n = c.n
    ranks = [0] * (n + 2)
    cleared = bytearray(c.n_cells(n))
    if (cleared and isinstance(c, SimplicialCellComplex)
            and passed_pseudo_manifold_check(c)):
        cleared[-1] = 1
    for k in range(n, 0, -1):
        columns, rows_of = _mod2_columns(c, k)
        pivots = {}
        for j, faces in enumerate(columns):
            if cleared[j] or not faces:
                continue
            h = max(faces)
            if h not in pivots and faces.count(h) == 1:
                pivots[h] = j
                continue
            # each step adds a pivot's rows, its faces when it is stored as
            # an index, else its narrow bits; the first adds the column's own
            low, bits, rows = faces[0], 0, faces
            while True:
                for f in rows:
                    if f >= low:
                        bits ^= 1 << (f - low)
                    else:
                        bits = (bits << (low - f)) ^ 1
                        low = f
                if not bits:
                    break
                h = low + bits.bit_length() - 1
                p = pivots.get(h)
                if p is None:
                    pivots[h] = low, bits
                    break
                if isinstance(p, int):
                    rows = rows_of(p)
                    continue
                rows = ()
                plow, pbits = p
                if plow >= low:
                    bits ^= pbits << (plow - low)
                else:
                    bits = (bits << (low - plow)) ^ pbits
                    low = plow
        ranks[k] = len(pivots)
        cleared = _marked(c.n_cells(k - 1), pivots)
    return tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(n + 1))


# ---------------------------------------------------------------------------
# Stock complexes and JSON input/output.


def simplex_sphere(k):
    """Boundary of the (k+1)-simplex: the minimal triangulated k-sphere."""
    if k < 1:
        raise ValidationError("sphere dimension must be at least 1")
    # its cells are the nonempty proper subsets of k + 2 vertices
    check_budget(f"sphere:{k}", (1 << (k + 2)) - 2, "cells")
    tops = list(combinations(range(k + 2), k + 1))
    return SimplicialCellComplex.from_top_simplices(tops)


def torus7():
    """The classical 7-vertex torus (cyclic Moebius-Kantor triangulation)."""
    tops = []
    for i in range(7):
        tops.append((i, (i + 1) % 7, (i + 3) % 7))
        tops.append((i, (i + 2) % 7, (i + 3) % 7))
    return SimplicialCellComplex.from_top_simplices(tops)


def klein_bottle():
    """A 9-vertex Klein bottle: 3x3 torus grid with one seam reflected."""
    def w(i, j):
        if j == 3:
            return (-i) % 3
        return 3 * j + (i % 3)

    tops = []
    for i in range(3):
        for j in range(3):
            a = w(i, j)
            b = w(i + 1, j)
            cc = w(i, j + 1)
            d = w(i + 1, j + 1)
            tops.append((a, b, d))
            tops.append((a, d, cc))
    return SimplicialCellComplex.from_top_simplices(tops)


def projective_plane():
    """The 6-vertex triangulation of the real projective plane."""
    tops = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    return SimplicialCellComplex.from_top_simplices(tops)


def complex_to_json_dict(c, orientation=None):
    out = {"schema": "nestotope/1", "kind": "pseudomanifold", "dim": c.n}
    labels = c.vertex_labels or list(range(c.n_cells(0)))
    str_labels = [str(l) for l in labels]
    out["top_cells"] = list(map(list, zip(*(
        map(str_labels.__getitem__, col) for col in c.vertex_columns[c.n]))))
    if orientation is not None and not isinstance(orientation, str):
        out["orientation"] = list(orientation)
    if not c.is_vertex_determined():
        inst = []
        for t in range(c.n_cells(c.n)):
            table = c.subfaces(c.n, t)
            for mask in range(len(table) - 1, 0, -1):
                inst.append([t, list(members(mask)), table[mask][1]])
        out["instances"] = inst
    return out


def complex_from_json_dict(data):
    if (not isinstance(data, dict)
            or "top_cells" not in data or "dim" not in data):
        raise ValidationError("pseudomanifold JSON needs 'dim' and 'top_cells'")
    dim = json_int(data["dim"], "pseudomanifold 'dim'")
    try:
        tops = [tuple(t) for t in data["top_cells"]]
    except TypeError as exc:
        raise ValidationError(
            "pseudomanifold 'top_cells' must be a list of vertex lists") from exc
    if any(len(t) != dim + 1 for t in tops):
        raise ValidationError("top cell arity does not match 'dim'")
    if "instances" in data:
        # Cell classes are listed explicitly; rebuild the arrays from them.
        by_key = {}
        counts = [0] * (dim + 1)
        try:
            for t, slots, cid in data["instances"]:
                k = len(slots) - 1
                if not 0 <= k <= dim or json_int(cid, "instance cell") < 0:
                    raise ValueError
                key = json_int(t, "instance top cell"), tuple(
                    json_int(s, "instance slot") for s in slots)
                by_key[key] = cid
                counts[k] = max(counts[k], cid + 1)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError("each instance must be [top cell, slots, "
                                  "cell] with 1 to dim + 1 slots") from exc
        cell_vertices = [None] + [[None] * counts[k] for k in range(1, dim + 1)]
        cell_faces = [None] + [[None] * counts[k] for k in range(1, dim + 1)]
        try:
            for (t, slots), cid in by_key.items():
                k = len(slots) - 1
                if k == 0:
                    continue
                cell_vertices[k][cid] = tuple(by_key[(t, (s,))] for s in slots)
                cell_faces[k][cid] = tuple(
                    by_key[(t, slots[:i] + slots[i + 1:])] for i in range(k + 1))
        except KeyError as exc:
            raise ValidationError(
                f"instance list misses the face {exc.args[0]!r}") from exc
        for k in range(1, dim + 1):
            if any(v is None for v in cell_vertices[k]):
                raise ValidationError("instance list leaves a cell undefined")
        cx = SimplicialCellComplex(dim, counts[0], cell_vertices, cell_faces)
        if not cx.validate():
            raise ValidationError("instance list does not describe a valid complex")
    else:
        cx = SimplicialCellComplex.from_top_simplices(tops)
    orientation = data.get("orientation")
    if orientation is not None:
        if (not isinstance(orientation, list)
                or any(json_int(x, "orientation entry") not in (1, -1)
                       for x in orientation)):
            raise ValidationError("orientation must be a list of 1 and -1")
        if len(orientation) != cx.n_cells(dim):
            raise ValidationError("orientation list length mismatch")
        if not is_top_cycle(cx, orientation):
            raise ValidationError("supplied orientation is not compatible")
    return cx, orientation


_PRESET_COMPLEXES = {
    "torus7": torus7,
    "klein": klein_bottle,
    "rp2": projective_plane,
}


def pseudomanifold_from_spec(text):
    """Parse 'sphere:k', a named preset, or a JSON file path.  A JSON
    "orientation" is checked, then dropped: callers run ``orient``, which
    also makes the pseudomanifold check they need."""
    if text.startswith("sphere:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad sphere dimension in {text!r}") from exc
        return simplex_sphere(k)
    if text in _PRESET_COMPLEXES:
        return _PRESET_COMPLEXES[text]()
    cx, _ = complex_from_json_dict(read_json(text, "complex"))
    return cx
